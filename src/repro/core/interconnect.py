"""The SPU interconnect: a sub-word-granularity crossbar with configurations.

The interconnect forwards arbitrary sub-words from the unified SPU register to
the MMX functional-unit operand inputs, eliminating both inter-word and
intra-word restrictions (§3).  Table 1 of the paper evaluates four
configurations trading flexibility for area/delay:

====  =================================  ========================================
name  crossbar                           semantics modeled here
====  =================================  ========================================
A     64×32 with 8-bit ports             any byte of all 8 registers → any
                                         output byte (full orthogonality)
B     32×32 with 8-bit ports             byte granularity over a 4-register
                                         input window
C     32×16 with 16-bit ports            half-word granularity over all 8
                                         registers
D     16×16 with 16-bit ports            half-word granularity over a
                                         4-register window (fits all paper
                                         kernels)
====  =================================  ========================================

All configurations drive 256 output bits = four 64-bit operand buses (two
pipes × two operands, Figure 4).

A *route* for one operand is a per-granule selector: entry ``i`` gives the
absolute granule address in the SPU register feeding output granule ``i``, or
``None`` for the architectural (straight-through) value.

The controller is statically scheduled (§4), so every route is known when its
program is loaded.  :func:`route_plan` compiles a route once into a
:class:`WordPlan` -- shift/mask terms over the MMX words, the structured
gather Titopoulos et al. build permutations from -- and the simulator routes
with plans.  :meth:`CrossbarConfig.apply`, the byte-granular gather through
the unified register, is the reference oracle the plans are tested against,
and the path an armed register upset takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import RouteError
from repro.core.spu_register import SPU_REGISTER_BYTES, SPURegister
from repro.isa.registers import MMX_BYTES
from repro.simd import lanes

#: Operand buses fed by the crossbar (2 pipes × 2 operands, Figure 4).
OPERAND_BUSES = 4

#: A route for one 64-bit operand: one entry per granule.  An entry is
#: ``None`` (straight), an ``int`` selector, or ``(selector, mode)`` where
#: *mode* names an operand transform the configuration supports (§6:
#: "additional modes could be added to the SPU, like sign extension,
#: negation, or even more complex operations").
OperandRoute = tuple


def _mode_neg(raw: bytes) -> bytes:
    """Two's-complement negation of the granule."""
    width = 8 * len(raw)
    value = int.from_bytes(raw, "little")
    return ((-value) & ((1 << width) - 1)).to_bytes(len(raw), "little")


def _mode_sxb(raw: bytes) -> bytes:
    """Sign-extend the granule's low byte to the full granule width."""
    fill = b"\xff" if raw[0] & 0x80 else b"\x00"
    return raw[:1] + fill * (len(raw) - 1)


def _mode_zxb(raw: bytes) -> bytes:
    """Zero-extend the granule's low byte."""
    return raw[:1] + b"\x00" * (len(raw) - 1)


#: Registry of operand-mode transforms, keyed by their route-entry name.
MODES = {"neg": _mode_neg, "sxb": _mode_sxb, "zxb": _mode_zxb}

#: The same transforms as integer expressions over a granule value ``v``
#: masked to ``g`` (all granule bits set), for :class:`WordPlan`.
WORD_MODES = {
    "neg": "(-{v}) & {g}",
    "sxb": "({v} & 255 | ({g} ^ 255 if {v} & 128 else 0))",
    "zxb": "{v} & 255",
}


def split_entry(entry) -> tuple[int | None, str | None]:
    """Normalize a route entry to ``(selector, mode)``."""
    if entry is None:
        return None, None
    if isinstance(entry, tuple):
        if len(entry) != 2:
            raise RouteError(f"route entry {entry!r} must be (selector, mode)")
        return entry[0], entry[1]
    return entry, None


@dataclass(frozen=True)
class CrossbarConfig:
    """One interconnect configuration (paper Table 1 rows)."""

    name: str
    in_ports: int  # selectable source granules
    out_ports: int  # total output granules across the 4 operand buses
    port_bits: int  # granule size: 8 or 16
    description: str = ""
    #: Operand-mode transforms this configuration's crossbar implements
    #: (§6 extension; empty for the paper's base design).
    modes: tuple = ()

    def __post_init__(self) -> None:
        if self.port_bits not in (8, 16):
            raise RouteError(f"{self.name}: port width must be 8 or 16 bits")
        if self.in_ports <= 0 or self.out_ports <= 0:
            raise RouteError(f"{self.name}: ports must be positive")
        if self.out_bits != OPERAND_BUSES * 64:
            raise RouteError(
                f"{self.name}: output must total {OPERAND_BUSES * 64} bits "
                f"(got {self.out_bits})"
            )
        if self.in_bits > SPU_REGISTER_BYTES * 8:
            raise RouteError(f"{self.name}: input window exceeds the SPU register")
        for mode in self.modes:
            if mode not in MODES:
                raise RouteError(
                    f"{self.name}: unknown operand mode {mode!r}; "
                    f"available: {sorted(MODES)}"
                )

    # ---- derived geometry ---------------------------------------------------

    @property
    def granule_bytes(self) -> int:
        return self.port_bits // 8

    @property
    def in_bits(self) -> int:
        return self.in_ports * self.port_bits

    @property
    def out_bits(self) -> int:
        return self.out_ports * self.port_bits

    @property
    def granules_per_operand(self) -> int:
        """Output granules per 64-bit operand bus."""
        return 64 // self.port_bits

    @property
    def window_regs(self) -> int:
        """How many MMX registers the input side can address."""
        return self.in_bits // 64

    @property
    def select_bits(self) -> int:
        """Selector width per output granule."""
        return max(1, math.ceil(math.log2(self.in_ports)))

    @property
    def mode_bits(self) -> int:
        """Extra bits per output granule for the operand-mode field."""
        if not self.modes:
            return 0
        return max(1, math.ceil(math.log2(len(self.modes) + 1)))

    @property
    def route_bits(self) -> int:
        """Interconnect field width in one controller state (Figure 6)."""
        return self.out_ports * (self.select_bits + self.mode_bits)

    @property
    def full_register_reach(self) -> bool:
        """True when every MMX register is addressable (no window limit)."""
        return self.window_regs >= SPU_REGISTER_BYTES // MMX_BYTES

    # ---- route validation -----------------------------------------------------

    def check_route(self, route: OperandRoute) -> None:
        """Raise :class:`RouteError` unless *route* is legal here."""
        if len(route) != self.granules_per_operand:
            raise RouteError(
                f"{self.name}: route needs {self.granules_per_operand} granule "
                f"selectors, got {len(route)}"
            )
        for entry in route:
            sel, mode = split_entry(entry)
            if mode is not None and mode not in self.modes:
                raise RouteError(
                    f"{self.name}: operand mode {mode!r} not supported "
                    f"(configuration modes: {self.modes or 'none'})"
                )
            if sel is None:
                if mode is not None:
                    raise RouteError(f"{self.name}: mode {mode!r} on a straight granule")
                continue
            if not isinstance(sel, int):
                raise RouteError(f"{self.name}: selector {sel!r} is not an int")
            if not 0 <= sel < self.in_ports:
                raise RouteError(
                    f"{self.name}: selector {sel} outside the {self.in_ports}-port "
                    f"input window ({self.window_regs} registers reachable)"
                )

    def check_byte_route(self, byte_route: tuple) -> OperandRoute:
        """Convert an 8-entry *byte*-granularity route to this config's granules.

        Byte routes are the natural output of the off-load pass; half-word
        configurations accept them only when adjacent byte pairs move
        together (no half-word tearing).
        """
        if len(byte_route) != MMX_BYTES:
            raise RouteError(f"byte route needs {MMX_BYTES} entries, got {len(byte_route)}")
        if self.port_bits == 8:
            route = tuple(byte_route)
            self.check_route(route)
            return route
        granules: list = []
        for pair_index in range(MMX_BYTES // 2):
            lo, hi = byte_route[2 * pair_index], byte_route[2 * pair_index + 1]
            if lo is None and hi is None:
                granules.append(None)
                continue
            if lo is None or hi is None:
                raise RouteError(
                    f"{self.name}: half of output half-word {pair_index} is straight"
                    " — 16-bit ports cannot split granules"
                )
            if lo % 2 != 0 or hi != lo + 1:
                raise RouteError(
                    f"{self.name}: bytes ({lo},{hi}) do not form an aligned source"
                    " half-word — illegal at 16-bit granularity"
                )
            granules.append(lo // 2)
        route = tuple(granules)
        self.check_route(route)
        return route

    # ---- data movement -----------------------------------------------------------

    def apply(self, route: OperandRoute | None, spu_register: SPURegister,
              straight_value: int) -> int:
        """Route one operand: gather selected granules, defaulting to *straight_value*."""
        if route is None:
            return straight_value
        self.check_route(route)
        granule = self.granule_bytes
        default = lanes.bytes_of(straight_value)
        window = spu_register.read_all()[: self.in_bits // 8]
        out = bytearray(MMX_BYTES)
        for i, entry in enumerate(route):
            sel, mode = split_entry(entry)
            dst = i * granule
            if sel is None:
                out[dst : dst + granule] = default[dst : dst + granule]
            else:
                src = sel * granule
                raw = window[src : src + granule]
                if mode is not None:
                    raw = MODES[mode](bytes(raw))
                out[dst : dst + granule] = raw
        return lanes.from_bytes(bytes(out))


class WordPlan:
    """One legal route compiled to word operations on the MMX file.

    ``keep`` masks the straight-through bits of the architectural operand.
    Each term ``(src mmx reg, shift, mask, dst shift)`` contributes
    ``((mmx[src] >> shift) & mask) << dst``: output granules fed from one
    register at the same offset merge into a single term.  ``moded`` holds
    one ``(src, shift, mask, dst, mode)`` term per granule with an operand
    mode.  ``gather(mmx, straight)`` evaluates the plan on the MMX file
    (``MachineState.mmx``) and is what the simulator calls.
    """

    __slots__ = ("keep", "terms", "moded", "gather")

    def __init__(self, keep: int, terms: tuple, moded: tuple) -> None:
        self.keep = keep
        self.terms = terms
        self.moded = moded
        parts = [f"x & {keep:#x}"] if keep else []
        for src, shift, mask, dst in terms:
            parts.append(_term(src, shift, mask, dst))
        for src, shift, mask, dst, mode in moded:
            value = _term(src, shift, mask, 0)
            expr = f"({WORD_MODES[mode].format(v=value, g=mask)})"
            parts.append(f"({expr} << {dst})" if dst else expr)
        source = f"lambda m, x: {' | '.join(parts)}"
        self.gather = eval(compile(source, "<word plan>", "eval"))

    def __repr__(self) -> str:
        return f"WordPlan(keep={self.keep:#x}, terms={self.terms}, moded={self.moded})"


def _term(src: int, shift: int, mask: int, dst: int) -> str:
    """Source text of ``((m[src] >> shift) & mask) << dst``."""
    expr = f"m[{src}] >> {shift}" if shift else f"m[{src}]"
    expr = f"({expr} & {mask:#x})"
    return f"({expr} << {dst})" if dst else expr


def compile_route(config: CrossbarConfig, route: OperandRoute) -> WordPlan:
    """Compile *route* into a :class:`WordPlan`; raises as ``apply`` would."""
    config.check_route(route)
    bits = config.port_bits
    granule = (1 << bits) - 1
    keep = 0
    groups: dict[tuple[int, int], int] = {}  # (src reg, src bit - dst bit) -> dst mask
    moded = []
    for index, entry in enumerate(route):
        sel, mode = split_entry(entry)
        dst = index * bits
        if sel is None:
            keep |= granule << dst
            continue
        src, offset = divmod(sel * bits, 64)
        if mode is None:
            key = (src, offset - dst)
            groups[key] = groups.get(key, 0) | granule << dst
        else:
            moded.append((src, offset, granule, dst, mode))
    terms = []
    for (src, delta), mask in groups.items():
        low = (mask & -mask).bit_length() - 1
        terms.append((src, low + delta, mask >> low, low))
    return WordPlan(keep, tuple(terms), tuple(moded))


#: ``id(config) -> (config, {route: WordPlan or RouteError message})``.
_PLANS: dict[int, tuple[CrossbarConfig, dict]] = {}


def route_plan(config: CrossbarConfig, route: OperandRoute) -> WordPlan:
    """The plan of *route* under *config*, compiled once and cached.

    Routes are immutable tuples, so the cache is keyed by ``(config,
    route)`` and shared by every run and every program load.  An illegal
    route is cached as its :class:`RouteError` message and raises on each
    use, with the message :meth:`CrossbarConfig.apply` raises.
    """
    held = _PLANS.get(id(config))
    if held is None:
        held = _PLANS[id(config)] = (config, {})
    plans = held[1]
    try:
        plan = plans.get(route)
    except TypeError:  # an unhashable, malformed route: compile uncached
        return compile_route(config, route)
    if plan is None:
        try:
            plan = compile_route(config, route)
        except RouteError as error:
            plan = str(error)
        plans[route] = plan
    if plan.__class__ is str:
        raise RouteError(plan)
    return plan


#: The four published configurations (paper Table 1).
CONFIG_A = CrossbarConfig(
    name="A", in_ports=64, out_ports=32, port_bits=8,
    description="64x32 crossbar with 8-bit ports",
)
CONFIG_B = CrossbarConfig(
    name="B", in_ports=32, out_ports=32, port_bits=8,
    description="32x32 crossbar with 8-bit ports",
)
CONFIG_C = CrossbarConfig(
    name="C", in_ports=32, out_ports=16, port_bits=16,
    description="32x16 crossbar with 16-bit ports",
)
CONFIG_D = CrossbarConfig(
    name="D", in_ports=16, out_ports=16, port_bits=16,
    description="16 x16 crossbar with 16-bit ports",
)

#: §6 extension point: configuration D with the operand-mode transforms
#: (sign/zero byte extension, negation) the paper lists as future additions.
CONFIG_D_MODED = CrossbarConfig(
    name="D+",
    in_ports=16,
    out_ports=16,
    port_bits=16,
    description="16x16 crossbar, 16-bit ports, with operand modes (§6)",
    modes=("neg", "sxb", "zxb"),
)

CONFIGS: dict[str, CrossbarConfig] = {
    c.name: c for c in (CONFIG_A, CONFIG_B, CONFIG_C, CONFIG_D)
}


def get_config(name: str) -> CrossbarConfig:
    """Look up a published configuration by letter."""
    try:
        return CONFIGS[name.upper()]
    except KeyError as exc:
        raise RouteError(f"unknown SPU configuration {name!r}; choose A-D") from exc
