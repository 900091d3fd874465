"""Event vocabulary and trace file parsing.

A trace is a UTF-8 text file, one record per line. Each line is a flat
sequence of ``key=value`` tokens separated by single spaces. Values are
percent-encoded so that spaces and separator characters never appear raw.
The first record must be the single ``meta`` record; ``seq`` must be
strictly increasing across the file. ``SCHEMA`` lists each kind's fields
with their codecs and defaults; parsing, serialization and the
unexpected-field check all read it.

Composite value syntaxes:

* typed values (``args``/``ret``): ``i:<int>``, ``s:<text>``, ``d:<ms>``,
  ``a:0x<hex>``, ``l:<int>`` for integer, string, duration-ms, address and
  byte-length respectively; ``args`` joins them with commas.
* register maps (``in``/``out``): ``reg:0x<hex>`` pairs joined with commas.
* struct layouts (``structs``): ``NAME@0x<base>(field+0x<off>:<width>,...)``
  joined with ``;``.
* published fields (``out_structs``): ``NAME.field@0x<addr>:<width>``
  joined with ``;``.

Addresses are abstract 64-bit unsigned integers; all structure knowledge a
consumer needs flows through the layout declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

META_LABEL_KEYS = ("dataset", "family", "year", "packer", "protector")

VALUE_TYPES = frozenset({"i", "s", "d", "a", "l"})

_SAFE_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    "._-:/\\@#+*[]{}<>!?~^$&'\"|"
)


class TraceError(Exception):
    """Malformed trace input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
            try:
                raw.append(int(text[i + 1:i + 3], 16))
            except ValueError:
                raise TraceError(f"bad percent escape in {text!r}")
            i += 3
        else:
            raw.extend(ch.encode("utf-8"))
            i += 1
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise TraceError(f"bad percent-encoded UTF-8 in {text!r}")


@dataclass(frozen=True)
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


def vint(v: int) -> Value:
    return Value("i", v)


def vstr(v: str) -> Value:
    return Value("s", v)


def vdur(ms: int) -> Value:
    return Value("d", ms)


def vaddr(a: int) -> Value:
    return Value("a", a)


def vlen(n: int) -> Value:
    return Value("l", n)


@dataclass(frozen=True)
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
                    fields.append((decode_text(fname), int(off, 0), int(width)))
            return StructLayout(decode_text(name), int(base, 0), tuple(fields))
        except ValueError:
            raise TraceError(f"bad struct layout {text!r}")


@dataclass(frozen=True)
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
                            int(addr, 0), int(width))
        except ValueError:
            raise TraceError(f"bad out_struct field {text!r}")


@dataclass(frozen=True)
class MetaPayload:
    sample_id: str
    labels: tuple[tuple[str, str], ...] = ()
    structs: tuple[StructLayout, ...] = ()


@dataclass(frozen=True)
class ImageLoadPayload:
    name: str
    base: int
    size: int
    region_kind: str
    header: bytes | None = None          # initial PE header bytes, if tracked
    size_of_image_addr: int | None = None
    structs: tuple[StructLayout, ...] = ()


@dataclass(frozen=True)
class RegionAllocPayload:
    base: int
    size: int
    region_kind: str
    name: str | None = None


@dataclass(frozen=True)
class RegionFreePayload:
    base: int


@dataclass(frozen=True)
class ProcessStartPayload:
    parent_pid: int | None = None
    name: str | None = None


@dataclass(frozen=True)
class ThreadStartPayload:
    parent_tid: int | None = None


@dataclass(frozen=True)
class ApiPayload:
    name: str
    args: tuple[Value, ...]
    ret: Value | None
    return_address: int
    native: bool
    out_structs: tuple[FieldRef, ...] = ()
    target_pid: int | None = None

    def str_args(self) -> tuple[str, ...]:
        return tuple(str(a.v) for a in self.args if a.t == "s")


@dataclass(frozen=True)
class InsnPayload:
    mnemonic: str
    address: int
    in_regs: tuple[tuple[str, int], ...] = ()
    out_regs: tuple[tuple[str, int], ...] = ()

    def reg_in(self, name: str) -> int | None:
        for k, v in self.in_regs:
            if k == name:
                return v
        return None

    def reg_out(self, name: str) -> int | None:
        for k, v in self.out_regs:
            if k == name:
                return v
        return None


@dataclass(frozen=True)
class MemPayload:
    address: int
    size: int
    value: int
    accessor_address: int


Payload = Union[MetaPayload, ImageLoadPayload, RegionAllocPayload,
                RegionFreePayload, ProcessStartPayload, ThreadStartPayload,
                ApiPayload, InsnPayload, MemPayload]


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    pid: int
    tid: int
    insn_index: int
    kind: str
    payload: Payload


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
    return (lambda raw: tuple(decode(part) for part in raw.split(sep)),
            lambda items: sep.join(encode(item) for item in items))


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


_EVENT_FIELDS = (
    _field("seq", _DEC), _field("pid", _DEC), _field("tid", _DEC),
    _field("insn_index", _DEC), _field("kind", _TEXT),
)

_MEM = (MemPayload, (
    _field("address", _HEX), _field("size", _DEC), _field("value", _HEX),
    _field("accessor_address", _HEX),
))

# kind -> (payload class, fields in written order)
SCHEMA = {
    "meta": (MetaPayload, (
        _field("sample_id", _TEXT),
        _field(None, (_take_labels, _write_labels), (), "labels"),
        _field("structs", _STRUCTS, ()),
    )),
    "image_load": (ImageLoadPayload, (
        _field("name", _TEXT),
        _field("base", _HEX),
        _field("size", (_extent, hex)),
        _field("region_kind", _REGION_KIND),
        _field("header", (lambda raw: bytes.fromhex(decode_text(raw)),
                          bytes.hex), None),
        _field("size_of_image_addr", _HEX, None),
        _field("structs", _STRUCTS, ()),
    )),
    "region_alloc": (RegionAllocPayload, (
        _field("base", _HEX),
        _field("size", (_extent, hex)),
        _field("region_kind", _REGION_KIND),
        _field("name", _TEXT, None),
    )),
    "region_free": (RegionFreePayload, (_field("base", _HEX),)),
    "process_start": (ProcessStartPayload, (
        _field("parent_pid", _DEC, None),
        _field("name", _TEXT, None),
    )),
    "thread_start": (ThreadStartPayload, (_field("parent_tid", _DEC, None),)),
    "api": (ApiPayload, (
        _field("name", _TEXT),
        _field("args", _joined(",", Value.parse, Value.encode), ()),
        _field("ret", (Value.parse, Value.encode), None),
        _field("return_address", _HEX),
        _field("native", (lambda raw: bool(_int(raw)), "%d".__mod__)),
        _field("target_pid", _DEC, None),
        _field("out_structs", _joined(";", FieldRef.parse, FieldRef.encode),
               ()),
    )),
    "insn": (InsnPayload, (
        _field("mnemonic", (_one_of(INSN_MNEMONICS, "mnemonic"), str)),
        _field("address", _HEX),
        _field("in", _REGS, (), "in_regs"),
        _field("out", _REGS, (), "out_regs"),
    )),
    "mem_read": _MEM,
    "mem_write": _MEM,
}


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
    out: dict[str, str] = {}
    for tok in line.split():
        key, sep, value = tok.partition("=")
        if not sep or not key:
            raise TraceError(f"malformed token {tok!r}")
        if key in out:
            raise TraceError(f"duplicate field {key!r}")
        out[key] = value
    return out


def _take(toks: dict[str, str], fields) -> dict:
    """Pop and decode ``fields`` from ``toks``, keyed by attribute."""
    values = {}
    for key, attr, (decode, _), default in fields:
        if key is None:
            values[attr] = decode(toks)
            continue
        raw = toks.pop(key, None)
        if raw is not None:
            try:
                values[attr] = decode(raw)
            except ValueError as exc:
                raise TraceError(f"field {key!r}: {exc}") from None
        elif default is REQUIRED:
            raise TraceError(f"missing field {key!r}")
        else:
            values[attr] = default
    return values


def parse_trace(source) -> list[TraceEvent]:
    """Parse a trace into its ordered event list.

    ``source`` may be text, bytes, or any iterable of lines. Raises
    TraceError (with line number) on malformed records, missing or
    unexpected fields, non-monotonic sequence numbers, unknown kinds, or a
    missing/duplicated/misplaced meta record; an error raised by a field
    decoder gets the line number added. Unknown API names are accepted
    as-is.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]

    events: list[TraceEvent] = []
    last_seq: int | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            toks = tokenize(line)
            head = _take(toks, _EVENT_FIELDS)
            seq, kind = head["seq"], head["kind"]
            if kind not in SCHEMA:
                raise TraceError(f"unknown kind {kind!r}")
            if last_seq is not None and seq <= last_seq:
                raise TraceError(
                    f"seq {seq} not greater than previous seq {last_seq}")
            last_seq = seq
            if not events and kind != "meta":
                raise TraceError("first record must be the meta record")
            if events and kind == "meta":
                raise TraceError("duplicate meta record")
            cls, fields = SCHEMA[kind]
            head["payload"] = cls(**_take(toks, fields))
            if toks:
                raise TraceError(f"unexpected fields {sorted(toks)}")
        except TraceError as exc:
            if exc.line is not None:
                raise
            raise TraceError(str(exc), lineno) from None
        events.append(TraceEvent(**head))
    if not events:
        raise TraceError("empty trace: missing meta record")
    return events


def parse_trace_file(path) -> list[TraceEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


# ---------------------------------------------------------------------------
# validation

def validate_trace(events: list[TraceEvent]) -> list[Diagnostic]:
    """Check type-level invariants over a parsed (or built) event list.

    Returns diagnostics rather than raising; an empty list means every
    invariant holds.
    """
    diags: list[Diagnostic] = []
    if not events:
        return [Diagnostic(0, "empty trace")]

    meta_positions = [i for i, ev in enumerate(events) if ev.kind == "meta"]
    if len(meta_positions) != 1 or meta_positions[0] != 0:
        diags.append(Diagnostic(
            events[0].seq,
            "trace must contain exactly one meta record, in first position"))

    last_seq: int | None = None
    last_insn: dict[tuple[int, int], int] = {}
    for ev in events:
        if last_seq is not None and ev.seq <= last_seq:
            diags.append(Diagnostic(ev.seq, "seq not strictly increasing"))
        last_seq = ev.seq

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
