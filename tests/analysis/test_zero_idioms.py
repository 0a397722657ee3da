"""Every zero idiom means the same thing to the off-load pass and the certifier.

``pxor r, r``, ``psub* r, r``, ``psubs* r, r``, ``psubus* r, r`` and
``pandn r, r`` all leave ``r`` zero whatever it held, so none of them reads
``r``.  A DotProduct loop that clears its registers with one of the other
idioms must analyze exactly like the ``pxor`` version: same live-in set,
same carried classes, same ``fx-lane-overflow`` verdict.
"""

import pytest

from repro.analysis.absint import certify_program, loop_entry_state
from repro.analysis.loops import find_loop_regions
from repro.core import analyze_original
from repro.kernels import make_kernel
from tests.analysis.test_absint_mutations import spliced


def accumulating_dotprod(clear: str):
    """DotProduct plus a byte-sum accumulator, cleared with *clear* ``r, r``.

    ``mm6`` is cleared before the loop and accumulates zero-extended bytes
    (``punpcklbw`` against ``mm7``, cleared in the body), so its 16-bit
    lanes provably stay below 16 * 255 when the clears are understood.
    """
    program = make_kernel("DotProduct").mmx_program()
    head = program.labels["loop"]
    program = spliced(
        program, head + 2,
        (clear, "mm7", "mm7"),
        ("movq", "mm5", "mm0"),
        ("punpcklbw", "mm5", "mm7"),
        ("paddw", "mm6", "mm5"),
    )
    return spliced(program, head, (clear, "mm6", "mm6"))


def analysis_of(program):
    regions = find_loop_regions(program)
    (region,) = regions
    body = program.instructions[region.start : region.end + 1]
    _, zeroed = loop_entry_state(program, region.start, regions)
    certification = certify_program(program, subject="acc")
    (cert,) = certification.certificates()
    return {
        "offload_live_in": analyze_original(body).live_in,
        "entry_zeroed": zeroed,
        "carried": cert.carried,
        "overflow": "fx-lane-overflow" in {f.rule for f in certification.findings()},
    }


def test_pxor_version_proves_the_accumulator_wrap_free():
    facts = analysis_of(accumulating_dotprod("pxor"))
    assert facts["entry_zeroed"] == {"mm6"}
    assert not facts["overflow"]
    assert {rec["register"]: rec["class"] for rec in facts["carried"]}["mm6"] == "reduction"


@pytest.mark.parametrize("clear", ["psubb", "psubw", "psubsb", "psubusw", "pandn"])
def test_other_zero_idioms_analyze_like_pxor(clear):
    assert analysis_of(accumulating_dotprod(clear)) == analysis_of(
        accumulating_dotprod("pxor")
    )
