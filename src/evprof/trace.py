"""Event vocabulary and trace file parsing.

A trace is a UTF-8 text file, one record per line. Each line is a flat
sequence of ``key=value`` tokens separated by single spaces. Values are
percent-encoded so that spaces and separator characters never appear raw.
The first record must be the single ``meta`` record; ``seq`` must be
strictly increasing across the file.

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

EVENT_KINDS = frozenset({
    "meta", "image_load", "region_alloc", "region_free", "api", "insn",
    "mem_read", "mem_write", "process_start", "thread_start",
})

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
    out = []
    for ch in text:
        if ch in _SAFE_CHARS:
            out.append(ch)
        else:
            out.extend("%%%02X" % b for b in ch.encode("utf-8"))
    return "".join(out)


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
        return "%s@0x%x(%s)" % (encode_text(self.name), self.base, body)

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
            encode_text(self.struct), encode_text(self.field),
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

    def label(self, key: str) -> str | None:
        for k, v in self.labels:
            if k == key:
                return v
        return None


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
# serialization

def _encode_regs(regs: tuple[tuple[str, int], ...]) -> str:
    return ",".join("%s:0x%x" % (encode_text(k), v) for k, v in regs)


def _parse_regs(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for part in text.split(","):
        try:
            k, v = part.split(":", 1)
            out.append((decode_text(k), int(v, 0)))
        except ValueError:
            raise TraceError(f"bad register map {text!r}")
    return tuple(out)


def serialize_event(ev: TraceEvent) -> str:
    toks = [
        "seq=%d" % ev.seq,
        "pid=%d" % ev.pid,
        "tid=%d" % ev.tid,
        "insn_index=%d" % ev.insn_index,
        "kind=%s" % ev.kind,
    ]
    p = ev.payload
    if ev.kind == "meta":
        toks.append("sample_id=" + encode_text(p.sample_id))
        for k, v in p.labels:
            toks.append("%s=%s" % (encode_text(k), encode_text(v)))
        if p.structs:
            toks.append("structs=" + ";".join(s.encode() for s in p.structs))
    elif ev.kind == "image_load":
        toks.append("name=" + encode_text(p.name))
        toks.append("base=0x%x" % p.base)
        toks.append("size=0x%x" % p.size)
        toks.append("region_kind=" + p.region_kind)
        if p.header is not None:
            toks.append("header=" + p.header.hex())
        if p.size_of_image_addr is not None:
            toks.append("size_of_image_addr=0x%x" % p.size_of_image_addr)
        if p.structs:
            toks.append("structs=" + ";".join(s.encode() for s in p.structs))
    elif ev.kind == "region_alloc":
        toks.append("base=0x%x" % p.base)
        toks.append("size=0x%x" % p.size)
        toks.append("region_kind=" + p.region_kind)
        if p.name is not None:
            toks.append("name=" + encode_text(p.name))
    elif ev.kind == "region_free":
        toks.append("base=0x%x" % p.base)
    elif ev.kind == "process_start":
        if p.parent_pid is not None:
            toks.append("parent_pid=%d" % p.parent_pid)
        if p.name is not None:
            toks.append("name=" + encode_text(p.name))
    elif ev.kind == "thread_start":
        if p.parent_tid is not None:
            toks.append("parent_tid=%d" % p.parent_tid)
    elif ev.kind == "api":
        toks.append("name=" + encode_text(p.name))
        if p.args:
            toks.append("args=" + ",".join(a.encode() for a in p.args))
        if p.ret is not None:
            toks.append("ret=" + p.ret.encode())
        toks.append("return_address=0x%x" % p.return_address)
        toks.append("native=%d" % int(p.native))
        if p.target_pid is not None:
            toks.append("target_pid=%d" % p.target_pid)
        if p.out_structs:
            toks.append("out_structs=" + ";".join(f.encode() for f in p.out_structs))
    elif ev.kind == "insn":
        toks.append("mnemonic=" + p.mnemonic)
        toks.append("address=0x%x" % p.address)
        if p.in_regs:
            toks.append("in=" + _encode_regs(p.in_regs))
        if p.out_regs:
            toks.append("out=" + _encode_regs(p.out_regs))
    elif ev.kind in ("mem_read", "mem_write"):
        toks.append("address=0x%x" % p.address)
        toks.append("size=%d" % p.size)
        toks.append("value=0x%x" % p.value)
        toks.append("accessor_address=0x%x" % p.accessor_address)
    else:  # pragma: no cover - construction is validated
        raise TraceError(f"unknown kind {ev.kind!r}")
    return " ".join(toks)


def serialize_trace(events: Iterable[TraceEvent]) -> str:
    return "".join(serialize_event(ev) + "\n" for ev in events)


# ---------------------------------------------------------------------------
# parsing

def _fields(line: str, lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in line.split():
        key, sep, value = tok.partition("=")
        if not sep or not key:
            raise TraceError(f"malformed token {tok!r}", lineno)
        if key in out:
            raise TraceError(f"duplicate field {key!r}", lineno)
        out[key] = value
    return out


class _Rec:
    """One raw record with typed field accessors."""

    def __init__(self, fields: dict[str, str], lineno: int):
        self.fields = fields
        self.lineno = lineno
        self.seen: set[str] = set()

    def _take(self, key: str) -> str:
        self.seen.add(key)
        try:
            return self.fields[key]
        except KeyError:
            raise TraceError(f"missing field {key!r}", self.lineno)

    def has(self, key: str) -> bool:
        return key in self.fields

    def text(self, key: str) -> str:
        return decode_text(self._take(key))

    def num(self, key: str) -> int:
        raw = self._take(key)
        try:
            return int(raw, 0)
        except ValueError:
            raise TraceError(f"field {key!r}: bad integer {raw!r}", self.lineno)

    def extent(self, key: str) -> int:
        value = self.num(key)
        if value <= 0:
            raise TraceError(f"field {key!r}: size {value} is not positive",
                             self.lineno)
        return value

    def opt_num(self, key: str) -> int | None:
        return self.num(key) if self.has(key) else None

    def opt_text(self, key: str) -> str | None:
        return self.text(key) if self.has(key) else None

    def structs(self, key: str = "structs") -> tuple[StructLayout, ...]:
        if not self.has(key):
            return ()
        return tuple(StructLayout.parse(p) for p in self._take(key).split(";"))

    def finish(self):
        extra = set(self.fields) - self.seen
        if extra:
            raise TraceError(f"unexpected fields {sorted(extra)}", self.lineno)


def _parse_payload(kind: str, rec: _Rec) -> Payload:
    if kind == "meta":
        sample_id = rec.text("sample_id")
        labels = tuple(
            (k, rec.text(k)) for k in META_LABEL_KEYS if rec.has(k)
        )
        return MetaPayload(sample_id, labels, rec.structs())
    if kind == "image_load":
        region_kind = rec.text("region_kind")
        if region_kind not in REGION_KINDS:
            raise TraceError(f"unknown region kind {region_kind!r}", rec.lineno)
        header = None
        if rec.has("header"):
            raw = rec.text("header")
            try:
                header = bytes.fromhex(raw)
            except ValueError:
                raise TraceError("bad hex in header field", rec.lineno)
        return ImageLoadPayload(
            name=rec.text("name"), base=rec.num("base"),
            size=rec.extent("size"), region_kind=region_kind, header=header,
            size_of_image_addr=rec.opt_num("size_of_image_addr"),
            structs=rec.structs(),
        )
    if kind == "region_alloc":
        region_kind = rec.text("region_kind")
        if region_kind not in REGION_KINDS:
            raise TraceError(f"unknown region kind {region_kind!r}", rec.lineno)
        return RegionAllocPayload(rec.num("base"), rec.extent("size"),
                                  region_kind, rec.opt_text("name"))
    if kind == "region_free":
        return RegionFreePayload(rec.num("base"))
    if kind == "process_start":
        return ProcessStartPayload(rec.opt_num("parent_pid"), rec.opt_text("name"))
    if kind == "thread_start":
        return ThreadStartPayload(rec.opt_num("parent_tid"))
    if kind == "api":
        args: tuple[Value, ...] = ()
        if rec.has("args"):
            args = tuple(Value.parse(p) for p in rec._take("args").split(","))
        ret = Value.parse(rec._take("ret")) if rec.has("ret") else None
        out_structs: tuple[FieldRef, ...] = ()
        if rec.has("out_structs"):
            out_structs = tuple(
                FieldRef.parse(p) for p in rec._take("out_structs").split(";")
            )
        return ApiPayload(
            name=rec.text("name"), args=args, ret=ret,
            return_address=rec.num("return_address"),
            native=bool(rec.num("native")),
            out_structs=out_structs, target_pid=rec.opt_num("target_pid"),
        )
    if kind == "insn":
        mnemonic = rec.text("mnemonic")
        if mnemonic not in INSN_MNEMONICS:
            raise TraceError(f"unknown mnemonic {mnemonic!r}", rec.lineno)
        in_regs = _parse_regs(rec._take("in")) if rec.has("in") else ()
        out_regs = _parse_regs(rec._take("out")) if rec.has("out") else ()
        return InsnPayload(mnemonic, rec.num("address"), in_regs, out_regs)
    if kind in ("mem_read", "mem_write"):
        return MemPayload(rec.num("address"), rec.num("size"),
                          rec.num("value"), rec.num("accessor_address"))
    raise TraceError(f"unknown kind {kind!r}", rec.lineno)


def parse_trace(source) -> list[TraceEvent]:
    """Parse a trace into its ordered event list.

    ``source`` may be text, bytes, or any iterable of lines. Raises
    TraceError (with line number) on malformed records, non-monotonic
    sequence numbers, unknown kinds, or a missing/duplicated/misplaced
    meta record; an error raised by a field decoder gets the line number
    added. Unknown API names are accepted as-is.
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
            rec = _Rec(_fields(line, lineno), lineno)
            seq = rec.num("seq")
            pid = rec.num("pid")
            tid = rec.num("tid")
            insn_index = rec.num("insn_index")
            kind = rec.text("kind")
            if kind not in EVENT_KINDS:
                raise TraceError(f"unknown kind {kind!r}", lineno)
            if last_seq is not None and seq <= last_seq:
                raise TraceError(
                    f"seq {seq} not greater than previous seq {last_seq}",
                    lineno)
            last_seq = seq
            if not events and kind != "meta":
                raise TraceError("first record must be the meta record",
                                 lineno)
            if events and kind == "meta":
                raise TraceError("duplicate meta record", lineno)
            payload = _parse_payload(kind, rec)
            rec.finish()
        except TraceError as exc:
            if exc.line is not None:
                raise
            raise TraceError(str(exc), lineno) from None
        events.append(TraceEvent(seq, pid, tid, insn_index, kind, payload))
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
